"""The benchmark's four workloads, their pinned plans and the correctness gate.

Each workload is a closed loop driven by a single caller.  ``step()`` makes
one timed group of calls into rfe's public functions, checks every result,
and returns ``(ops, failed)``.  An op is one estimation trial (``campaign``),
one ``estimate_phase`` run (``deep_samples``, ``fine_grid``) or one
``rfe verify`` call (``verify``).  All phases and run seeds come from the
workload seed, so one seed always gives the same inputs.

Construction builds and checks the certified plans the workload runs at;
``mismatches`` lists every plan that differs from its pinned (K, M).
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
import traceback

import numpy as np

from rfe import bounds, cli, estimator, harness, noise

EPSILON = 0.1
DELTA = 0.1
# Trials per monte_carlo_success call: large enough that batching inside a
# campaign can show, small enough that the five families interleave finely
# (machine speed drifts over minutes, so families must share the same minutes).
CAMPAIGN_BLOCK = 50
# The range UniformTheta draws from; line and circular distance agree on it.
THETA_LOW = 0.2
THETA_HIGH = math.pi - 0.2

VERIFY_SUITES = ("oracle", "lemmas", "thresholds", "reductions", "depth",
                 "noiseless", "adversarial", "gaussian", "demo")


def op_failed(estimate, theta: float, epsilon: float) -> bool:
    """Run one estimate; it fails if it raises or misses theta by more than epsilon."""
    try:
        theta_hat = estimate()
    except Exception:  # any error is a failed op; the loop keeps running
        traceback.print_exc(file=sys.stderr)
        return True
    return not abs(theta_hat - theta) <= epsilon


def _plan_mismatches(queries) -> list[str]:
    """Compare certified plans against their pinned (K, M)."""
    out = []
    for label, epsilon, model, pinned in queries:
        plan = bounds.bounds_report(epsilon, DELTA, model)
        got = (plan.grid_size, plan.samples)
        if got != pinned:
            out.append(f"{label}: plan (K, M) = {got}, pinned {pinned}")
    return out


def campaign_families() -> dict:
    """Family name -> (noise model, pinned (K, M) at epsilon = delta = 0.1)."""
    return {
        "ideal": (noise.Ideal(), (63, 3130)),
        "ban": (noise.Ban(eta_bar=0.05, strategy=noise.AdversaryStrategy.SIGN_FLIP),
                (63, 12510)),
        "gaussian": (noise.Gaussian(sigma=0.1), (63, 3559)),
        "dephasing": (noise.Dephasing(t2=6300.0), (63, 3860)),
        "high_coherence": (noise.HighCoherence(t2=6300.0), (63, 3864)),
    }


class Campaign:
    """Seeded campaigns for five noise families at their certified plans.

    One step runs a block of CAMPAIGN_BLOCK trials of every family in turn
    (round robin), each through ``monte_carlo_success`` with one worker and
    UniformTheta.  Each trial is small, so per-trial overhead (a fresh
    generator, re-planning, the Python loop) shares the time with the sampler.
    """

    block = CAMPAIGN_BLOCK

    def __init__(self, seed: int):
        self.families = campaign_families()
        self.mismatches = _plan_mismatches(
            (name, EPSILON, model, pinned) for name, (model, pinned) in self.families.items())
        self.rng = np.random.default_rng(seed)
        # Seconds spent in each family's block during the last step.
        self.last_family_seconds = dict.fromkeys(self.families, 0.0)

    def step(self) -> tuple[int, int]:
        ops = failed = 0
        for name, (model, _) in self.families.items():
            master_seed = int(self.rng.integers(2 ** 63))
            start = time.perf_counter()
            try:
                stats = harness.monte_carlo_success(
                    bounds.BoundsQuery(EPSILON, DELTA, model), CAMPAIGN_BLOCK,
                    harness.UniformTheta(), master_seed, workers=1)
                missed = (CAMPAIGN_BLOCK - stats.successes
                          if stats.trials == CAMPAIGN_BLOCK else CAMPAIGN_BLOCK)
            except Exception:  # the whole block counts as failed
                traceback.print_exc(file=sys.stderr)
                missed = CAMPAIGN_BLOCK
            self.last_family_seconds[name] = time.perf_counter() - start
            ops += CAMPAIGN_BLOCK
            failed += missed
        return ops, failed


class SingleRun:
    """One ``estimate_phase`` call per step at a fixed (epsilon, noise) plan."""

    def __init__(self, name: str, epsilon: float, model, pinned: tuple[int, int], seed: int):
        self.name = name
        self.epsilon = epsilon
        self.model = model
        self.mismatches = _plan_mismatches([(name, epsilon, model, pinned)])
        self.rng = np.random.default_rng(seed)

    def step(self) -> tuple[int, int]:
        theta = float(self.rng.uniform(THETA_LOW, THETA_HIGH))
        run_seed = int(self.rng.integers(2 ** 63))

        def estimate():
            # Looked up on the module at call time, so the traced run sees it.
            return estimator.estimate_phase(self.epsilon, DELTA, self.model, theta,
                                            seed=run_seed).theta_hat

        return 1, int(op_failed(estimate, theta, self.epsilon))


def deep_samples(seed: int) -> SingleRun:
    """M >> K: dephasing T2 = 630 at epsilon = delta = 0.1 (K = 63, M = 1,319,077).

    The O(M) index and outcome draws dominate and one run allocates ~119 MB.
    """
    return SingleRun("deep_samples", EPSILON, noise.Dephasing(t2=630.0), (63, 1319077), seed)


def fine_grid(seed: int) -> SingleRun:
    """K >> M: gaussian sigma = 0.01 at epsilon = 1e-4, delta = 0.1 (K = 62,832, M = 6,169).

    The 2K noise draws, the bias table, bincount over K, the length-K FFT and
    the peak pick dominate; the sampler does little.
    """
    return SingleRun("fine_grid", 1e-4, noise.Gaussian(sigma=0.01), (62832, 6169), seed)


class Verify:
    """``rfe verify`` (all nine suites, default workers) as one op per step.

    Its inputs are pinned inside rfe, so the workload seed does not change them.
    """

    def __init__(self, seed: int):
        families = campaign_families()
        self.mismatches = _plan_mismatches(
            (name, EPSILON, families[name][0], families[name][1])
            for name in ("ideal", "ban", "gaussian"))

    def step(self) -> tuple[int, int]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify"])
        except Exception:  # a crash is a failed op
            traceback.print_exc(file=sys.stderr)
            return 1, 1
        lines = out.getvalue().splitlines()
        passed = [line.split(":")[0] for line in lines]
        ok = code == 0 and passed == [f"PASS {name}" for name in VERIFY_SUITES]
        if not ok:
            sys.stderr.write(out.getvalue())
        return 1, int(not ok)


WORKLOADS = {
    "campaign": Campaign,
    "deep_samples": deep_samples,
    "fine_grid": fine_grid,
    "verify": Verify,
}
