"""Enumeration oracles, the kernel lemma certificate, and Monte Carlo campaigns.

Three kinds of checks live here:

* :func:`exact_estimator_expectation` computes the estimator's expectation by
  brute force, over every time index and all four outcome pairs weighted by
  their clamped probabilities, with a direct DFT from a table of roots of
  unity: independent of the closed-form spectrum and of the sampling path.
* :func:`certify_kernel_lemma` proves the kernel magnitude floor and caps for
  every grid size a run accepts and every phase, from the kernel's values at
  a few thousand points and a bound on its slope.
* :func:`monte_carlo_success` runs a seeded campaign of full estimation runs
  on one plan, in blocks of B = max(1, BLOCK_CELLS // K) trials through
  :func:`rfe.estimator.run_block`.  Block b draws everything from a
  generator spawned from the master seed and b alone, so results do not
  depend on the number of worker threads or the block order.
  :func:`noise_sweep` maps it over a list of plans, each on its own spawned
  seed; which model and plan a point has is the caller's choice.

:func:`thread_map` is the one place that builds a thread pool, for these
blocks and for the suites of :func:`rfe.verify.run_suites`: an item starts
only when a thread is free.  It never nests on its own; a caller that runs
maps inside the items of another gives them one thread each.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .bounds import (
    MAX_GRID_SIZE,
    MAX_SAMPLES,
    TWO_PI,
    BoundsQuery,
    BoundsReport,
    bounds_report,
    check_grid_size,
)
# run_rfe is not called here; rfebench's traced run wraps rfe.harness.run_rfe.
from .estimator import grid_split, no_sample_result, run_block, run_rfe, winning_frequency
from .noise import DeviationTable
from .spectrum import (
    CLOSE_MAGNITUDE_MIN,
    NON_ADJACENT_ENVELOPE_MAX,
    NON_ADJACENT_MAGNITUDE_MAX,
    SMALL_ARRAY_BYTES,
    dirichlet_kernel,
    validate_phase,
)

# Enumeration is O(K^2); past this the oracle is no longer "instant".
MAX_ENUMERATION_GRID = 4096

WILSON_Z_95 = 1.959963984540054

# A campaign block holds max(1, BLOCK_CELLS // K) trials, so its (B, K)
# arrays stay near this many cells at any grid size.
BLOCK_CELLS = 8192


# --- exact expectation oracle ------------------------------------------------

def _direct_dft(values: np.ndarray) -> np.ndarray:
    """sum_k values[k] exp(-2 pi i j k / K) via explicit phase matrices.

    Deliberately not an FFT: this is the independent cross-check of the
    transform the estimator relies on.  Each phase is read from a table of
    the K roots of unity at m = j k mod K, exact in integers, so no phase
    rounds a large angle.  Rows go in blocks of max(1, SMALL_ARRAY_BYTES //
    (16 K)), each complex phase matrix under :data:`SMALL_ARRAY_BYTES`, and
    a row's sum does not depend on its block.
    """
    K = values.shape[0]
    out = np.empty(K, dtype=complex)
    k = np.arange(K)
    roots = np.exp(-2j * np.pi * k / K)
    rows = max(1, SMALL_ARRAY_BYTES // (16 * K))
    for start in range(0, K, rows):
        j = k[start:start + rows, None]
        out[start:start + rows] = (roots[j * k % K] * values).sum(axis=1)
    return out


def exact_estimator_expectation(theta: float, grid_size: int,
                                deviations: Optional[DeviationTable] = None) -> np.ndarray:
    """The K expected coefficient estimates, by exhaustive enumeration.

    For each time k the four (c, s) outcomes are weighted by their clamped
    likelihoods; the per-time means are then transformed by direct summation.
    A deviation table adds its first K entries to the biases before the
    clamp.
    """
    K = int(grid_size)
    if not 1 <= K <= MAX_ENUMERATION_GRID:
        raise ValueError(f"enumeration supports 1 <= K <= {MAX_ENUMERATION_GRID}, got {K}")
    k = np.arange(K, dtype=float)
    bx = np.cos(k * theta)
    by = np.sin(k * theta)
    if deviations is not None:
        if len(deviations) < K:
            raise ValueError(f"deviation table of length {len(deviations)} "
                             f"does not cover grid size {K}")
        bx = bx + deviations.eta1[:K]
        by = by + deviations.eta2[:K]
    p_c = np.clip((1.0 + bx) / 2.0, 0.0, 1.0)
    p_s = np.clip((1.0 + by) / 2.0, 0.0, 1.0)
    outcome_mean = np.zeros(K, dtype=complex)
    for c in (1.0, -1.0):
        for s in (1.0, -1.0):
            prob = (p_c if c > 0 else 1.0 - p_c) * (p_s if s > 0 else 1.0 - p_s)
            outcome_mean += prob * (c + 1j * s)
    return _direct_dft(outcome_mean) / K


# --- success campaigns --------------------------------------------------------

@dataclass(frozen=True)
class FixedTheta:
    """Every trial estimates the same phase."""

    value: float

    def __post_init__(self):
        validate_phase(self.value)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """An array of ``size`` copies of the phase; draws nothing."""
        return np.full(size, float(self.value))


@dataclass(frozen=True)
class UniformTheta:
    """Per-trial phase drawn uniformly; the default range stays away from the
    endpoints 0 and pi where line distance and circular distance disagree."""

    low: float = 0.2
    high: float = math.pi - 0.2

    def __post_init__(self):
        if not 0.0 <= self.low < self.high <= TWO_PI:
            raise ValueError(f"need 0 <= low < high <= 2*pi, got {self.low!r}, {self.high!r}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """An array of ``size`` uniform phases."""
        return rng.uniform(self.low, self.high, size)


ThetaSampling = Union[FixedTheta, UniformTheta]


@dataclass(frozen=True)
class SuccessStats:
    """Outcome of a campaign of independent estimation trials."""

    trials: int
    successes: int
    rate: float
    wilson_ci_95: tuple[float, float]
    epsilon_used: float
    delta_used: float

    def to_dict(self) -> dict:
        return {**asdict(self), "wilson_ci_95": list(self.wilson_ci_95)}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate (well-behaved at small n)."""
    if trials < 0 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    n, z = trials, WILSON_Z_95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def block_rng(master_seed: int, block: int) -> np.random.Generator:
    """Generator for one block of trials, derived from (master seed, block
    index) only.

    This is the whole reproducibility scheme: with the block size fixed by
    the grid size, block streams do not depend on execution order or on how
    blocks are split across workers.
    """
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=(int(block),)))


def pool_size(workers: int) -> int:
    """Worker threads for a ``workers`` setting: itself capped at the cores,
    or every core for 0.  The cap keeps a large setting from starting as
    many operating-system threads."""
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 for all cores), got {workers}")
    cores = os.cpu_count() or 1
    return min(workers or cores, cores)


def thread_map(fn: Callable, items: Sequence, threads: int) -> Iterator:
    """Yield ``fn(item)`` for each of the sized ``items`` as the calls
    finish, on at most ``min(threads, len(items))`` threads.

    ``items`` is read lazily, so ``range(2 * 10**12)`` is fine.  An item
    starts only when a thread is free, so after the first error no further
    item starts, and the error is re-raised.  With one thread this is
    ``map(fn, items)`` in the calling thread.
    """
    threads = min(threads, len(items))
    if threads <= 1:
        yield from map(fn, items)
        return
    pending = iter(items)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        running = {pool.submit(fn, item) for item in itertools.islice(pending, threads)}
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()
            running |= {pool.submit(fn, item)
                        for item in itertools.islice(pending, len(done))}


def monte_carlo_success(plan: Union[BoundsQuery, BoundsReport], trials: int,
                        theta_sampling: ThetaSampling,
                        master_seed: int, workers: int = 1) -> SuccessStats:
    """Estimate the success rate Pr(|theta_hat - theta| <= epsilon), with the
    error taken on the line, not folded mod 2 pi.

    The campaign runs exactly ``plan``: a :class:`rfe.bounds.BoundsReport`
    as it is, or a :class:`rfe.bounds.BoundsQuery` planned once by
    :func:`rfe.bounds.bounds_report`.  An uncertified plan, such as an
    under-sampled demo, is a report with fields replaced,
    ``dataclasses.replace(report, samples=M, grid_size=K)``: its
    ``expected_total_depth`` follows its own M and K, while its
    ``inflation_factor`` and ``thresholds`` still describe the certified
    query.  K must pass :func:`rfe.bounds.check_grid_size` and M lie in
    [0, 2**62], else ``ValueError``.  The trials run in blocks of
    B = max(1, BLOCK_CELLS // K), the last one shorter.  Block b draws from
    :func:`block_rng` (master seed, b), in this order: its B phases, then the
    run noise and samples of its B runs, which :func:`rfe.estimator.run_block`
    does as (B, K) arrays.
    ``workers`` (0: all cores) sets the threads, at most one per block and
    capped at the cores, that :func:`thread_map` spreads whole blocks over
    (numpy's generator fills, ufunc loops and FFTs release the interpreter
    lock); it cannot change the statistics, memory does not grow with
    ``trials``, and the first error stops the campaign.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    workers = pool_size(workers)
    if not isinstance(plan, BoundsReport):
        plan = bounds_report(plan.epsilon, plan.delta, plan.noise)
    grid, samples = check_grid_size(plan.grid_size), int(plan.samples)
    if not 0 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in [0, 2**62], got {plan.samples}")
    block = max(1, BLOCK_CELLS // grid)
    blocks = -(-trials // block)
    master_seed = int(master_seed)

    def block_successes(index: int) -> int:
        """Successes among one block's trials: phases, then one run per phase."""
        rng = block_rng(master_seed, index)
        thetas = theta_sampling.draw(rng, min(block, trials - index * block))
        if samples == 0:
            theta_hat = no_sample_result(grid).theta_hat
        else:
            coefficients = run_block(thetas, samples, grid, plan.noise, rng)[0]
            theta_hat = TWO_PI * winning_frequency(coefficients) / grid
        return int(np.count_nonzero(np.abs(theta_hat - thetas) <= plan.epsilon))

    # the blocks' first runs would each build a split grid's table at once
    grid_split(grid)
    successes = sum(thread_map(block_successes, range(blocks), workers))
    return SuccessStats(trials=trials, successes=successes, rate=successes / trials,
                        wilson_ci_95=wilson_interval(successes, trials),
                        epsilon_used=plan.epsilon, delta_used=plan.delta)


# --- kernel lemma certificate -------------------------------------------------

# Grid sizes at which the close floor g_K(1/2) is read; the last is the
# largest a run accepts, where g_K(1/2) is least.
LEMMA_GRID_SIZES = (4, 16, 64, 256, 4096, 65536, 2 ** 20, MAX_GRID_SIZE)
# g_4 is read at the ends of this many equal steps of d in [1, 2].
LEMMA_STEPS = 4096
# |g_4'| on [1, 2] by the quotient rule: with N = sin(pi d) and
# D = 4 sin(pi d / 4) >= 2 sqrt 2 there, |N| <= 1 and |N'|, |D'| <= pi give
# |g'| <= pi / D + pi / D^2.
LEMMA_SLOPE_MAX = math.pi / (2.0 * math.sqrt(2.0)) + math.pi / 8.0


def lemma_far_distances(K: int) -> np.ndarray:
    """The half-integer distances d >= 5/2 at which g_K is read against
    Jordan's cap 1/(2d): 2**i + 1/2 below the largest half-integer at most
    K/2, and that one, where the cap is tightest; none for K < 5."""
    last = math.floor(K / 2 - 0.5) + 0.5
    powers = [2 ** i + 0.5 for i in range(1, K.bit_length()) if 2 ** i + 0.5 < last]
    return np.array(powers + [last] if last >= 2.5 else [])


@dataclass(frozen=True)
class LemmaCertificate:
    """The kernel magnitude bounds, certified for every K in ``k_range`` and
    every phase, from values of :func:`rfe.spectrum.dirichlet_kernel`."""

    k_range: tuple
    points_evaluated: int
    violation_count: int
    min_close_magnitude: float         # g_K(1/2) at the largest K
    max_non_adjacent_magnitude: float  # the largest g_4 read on [1, 2]
    max_non_adjacent_distance: float   # the d where it was read
    non_adjacent_bound: float          # that plus the slope term
    close_margin: float                # min_close_magnitude - 2/pi
    non_adjacent_margin: float         # 10/(9 pi) - non_adjacent_bound
    envelope_margin: float             # 1/(2 sqrt 2) - non_adjacent_bound
    passed: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "k_range": list(self.k_range)}


def certify_kernel_lemma() -> LemmaCertificate:
    """Certify the kernel lemma for every K in [4, MAX_GRID_SIZE] and every
    phase: g_K(d) = |S_K(d)| >= 2/pi at circular distance d <= 1/2 from the
    tone, and g_K(d) <= 1/(2 sqrt 2) <= 10/(9 pi) at d >= 1.

    The magnitude at index j depends on K and d alone.  Four facts carry it:

    * g falls as K grows.  K sin(x/K) rises with K while x/K <= pi/2, since
      tan y >= y, so at a fixed d <= K/2 the worst K is 4 for a cap, and the
      largest K for the floor.
    * Close floor.  On d <= 1/2, g_K falls with d and stays above
      sin(pi d)/(pi d) >= 2/pi.  g_K(1/2) is read at each of
      :data:`LEMMA_GRID_SIZES`; the values must fall with K, and the last is
      the infimum over the range.
    * Non-adjacent cap for d >= 2.  Jordan's inequality, sin y >= 2y/pi on
      [0, pi/2], gives K sin(pi d/K) >= 2d, so g <= 1/(2d) <= 1/4.  g_K is
      read at the half-integers :func:`lemma_far_distances` of each of
      :data:`LEMMA_GRID_SIZES`, where |sin(pi d)| = 1, against 1/(2d).
    * Non-adjacent cap for 1 <= d <= 2.  g_4 is read at the LEMMA_STEPS + 1
      points of an even grid; every d lies within half a step of one, so
      g_4(d) is at most its value plus LEMMA_SLOPE_MAX times half a step.

    A violation is a value read that breaks its part of the argument: a
    close value below 2/pi or not below the one at the previous K, a far
    value above 1/(2d), or a grid value that passes 1/(2 sqrt 2) once the
    slope term is added.  A NaN is one.
    """
    close = np.abs([dirichlet_kernel(0.5, K) for K in LEMMA_GRID_SIZES])
    far_distances = [lemma_far_distances(K) for K in LEMMA_GRID_SIZES]
    far_ratios = np.concatenate([2.0 * d * np.abs(dirichlet_kernel(d, K))
                                 for K, d in zip(LEMMA_GRID_SIZES, far_distances)])
    distances = np.linspace(1.0, 2.0, LEMMA_STEPS + 1)
    grid = np.abs(dirichlet_kernel(distances, 4))
    slack = LEMMA_SLOPE_MAX * 0.5 / LEMMA_STEPS
    cap = min(NON_ADJACENT_MAGNITUDE_MAX, NON_ADJACENT_ENVELOPE_MAX)
    # negated, so that a NaN counts
    violation_count = int(np.count_nonzero(~(close >= CLOSE_MAGNITUDE_MIN))
                          + np.count_nonzero(~(np.diff(close) < 0.0))
                          + np.count_nonzero(~(far_ratios <= 1.0))
                          + np.count_nonzero(~(grid + slack <= cap)))
    peak = int(np.argmax(grid))
    min_close, max_nonadj = float(np.min(close)), float(grid[peak])
    bound = max_nonadj + slack
    return LemmaCertificate(
        k_range=(4, MAX_GRID_SIZE),
        points_evaluated=close.size + far_ratios.size + grid.size,
        violation_count=violation_count,
        min_close_magnitude=min_close,
        max_non_adjacent_magnitude=max_nonadj,
        max_non_adjacent_distance=float(distances[peak]),
        non_adjacent_bound=bound,
        close_margin=min_close - CLOSE_MAGNITUDE_MIN,
        non_adjacent_margin=NON_ADJACENT_MAGNITUDE_MAX - bound,
        envelope_margin=NON_ADJACENT_ENVELOPE_MAX - bound,
        passed=violation_count == 0,
    )


# --- noise sweeps --------------------------------------------------------------

def noise_sweep(plans: Sequence[Optional[Union[BoundsQuery, BoundsReport]]],
                trials_per_point: int, master_seed: int,
                theta_sampling: Optional[ThetaSampling] = None,
                workers: int = 1) -> list[Optional[SuccessStats]]:
    """The stats of a :func:`monte_carlo_success` campaign on each plan, or
    None for a None plan (one the planner rejected).

    Plan i runs ``trials_per_point`` trials of ``theta_sampling`` (default
    :class:`UniformTheta`) from the i-th seed spawned from ``master_seed``,
    SeedSequence(master_seed, spawn_key=(i,)), so a point's stream depends
    on its index alone, not on the others.  A negative ``workers`` or a
    ``trials_per_point`` below 1 raises ``ValueError`` before any campaign,
    even when no plan runs.
    """
    pool_size(workers)
    if int(trials_per_point) < 1:
        raise ValueError(f"trials must be >= 1, got {trials_per_point}")
    sampling = theta_sampling or UniformTheta()
    seeds = np.random.SeedSequence(int(master_seed)).spawn(len(plans))
    return [None if plan is None else
            monte_carlo_success(plan, trials_per_point, sampling,
                                int(seed.generate_state(1, np.uint64)[0]), workers=workers)
            for plan, seed in zip(plans, seeds)]
