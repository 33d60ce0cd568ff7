"""Enumeration oracles, bound scans, and seeded Monte Carlo campaigns.

Three kinds of checks live here:

* :func:`exact_estimator_expectation` computes the estimator's expectation by
  brute force, over every time index and all four outcome pairs weighted by
  their clamped probabilities, with a direct DFT from a table of roots of
  unity: independent of the closed-form spectrum and of the sampling path.
* :func:`lemma_bound_scan` checks the kernel magnitude floor and caps at
  every point of a (K, theta) grid, with zero tolerance for violations.  A
  point's magnitude comes from a table of row sines and one of column sines;
  only the two rows nearest each tone, which hold its close points, take a
  sine of their own.
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
    MAX_SAMPLES,
    TWO_PI,
    BoundsQuery,
    BoundsReport,
    bounds_report,
    check_grid_size,
)
# run_rfe is not called here; rfebench's traced run wraps rfe.harness.run_rfe.
from .estimator import no_sample_result, run_block, run_rfe, winning_frequency
from .noise import DeviationTable
from .spectrum import (
    CLOSE_MAGNITUDE_MIN,
    NON_ADJACENT_ENVELOPE_MAX,
    NON_ADJACENT_MAGNITUDE_MAX,
    SMALL_ARRAY_BYTES,
    validate_phase,
)

# Enumeration is O(K^2); past this the oracle is no longer "instant".
MAX_ENUMERATION_GRID = 4096

WILSON_Z_95 = 1.959963984540054
# Kernel bound scans allow this much rounding past a floor or cap.
SCAN_TOLERANCE = 1e-12

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

    successes = sum(thread_map(block_successes, range(blocks), workers))
    return SuccessStats(trials=trials, successes=successes, rate=successes / trials,
                        wilson_ci_95=wilson_interval(successes, trials),
                        epsilon_used=plan.epsilon, delta_used=plan.delta)


# --- kernel bound scans -------------------------------------------------------

@dataclass(frozen=True)
class LemmaScanReport:
    """Worst margins of the kernel magnitude bounds over a (K, theta) grid."""

    k_values: tuple
    n_theta: int
    tolerance: float
    points_checked: int
    violation_count: int
    violations: tuple  # first few offenders as dicts, for diagnosis
    min_close_magnitude: float
    max_non_adjacent_magnitude: float
    close_margin: float          # min(|f| - 2/pi) over close frequencies
    non_adjacent_margin: float   # min(10/(9 pi) - |f|) over non-adjacent ones
    envelope_margin: float       # min(1/(2 sqrt 2) - |f|) over non-adjacent ones
    passed: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "k_values": list(self.k_values),
                "violations": list(self.violations)}


def _scan_block(tone: np.ndarray, K: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """|S_K(j - tone)| as a (K, len(tone)) array over j = 0 .. K - 1, for
    tones in [0, K/2], and the near rows F = floor(tone) and (F + 1) mod K
    with their distances tone - F and F + 1 - tone, as two (2, len(tone))
    arrays; every other row lies at circular distance d >= 1.

    The numerator |sin(pi (j - t))| = |sin(pi t)| takes one reduced sine per
    column.  The denominator sin(pi d / K) = |S_j c_t - C_j s_t| comes from
    tables of S, C = sin, cos(pi j / K) and s, c = sin, cos(pi t / K), which
    moves a far row's magnitude by about K eps (3.1e-15 on rfe verify's
    grid).  The near rows, which hold every point with d < 1, keep the sine
    of their rounded d pi / K, and 1 at d = 0.  At K = 1 both are row 0,
    which keeps F's."""
    numerator = np.abs(np.sin(np.pi * (tone - np.rint(tone)))) / K
    angles = np.pi / K * np.arange(K)
    rows = np.array((np.sin(angles), -np.cos(angles)))
    angles = np.pi / K * tone
    columns = np.array((np.cos(angles), np.sin(angles)))
    # S_j c_t - C_j s_t in one pass: a (K, n) temporary would be a second
    # fresh allocation per block, with its page faults
    mags = np.einsum("kj,kt->jt", rows, columns)
    np.abs(mags, out=mags)
    low = np.floor(tone)
    dist = np.array((tone - low, low + 1.0 - tone))
    # a near row's denominator may be 0; its magnitude is replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(numerator, mags, out=mags)
        exact = numerator / np.sin(np.multiply(dist, np.pi / K))
    exact[dist == 0.0] = 1.0
    near = np.array((low, low + 1.0), dtype=np.intp) % K
    points = np.arange(tone.size)
    mags[near[1], points] = exact[1]
    mags[near[0], points] = exact[0]
    return mags, (near, dist)


def _scan_tones(tone: np.ndarray, K: int) -> tuple[float, float, int, list]:
    """One K's part of :func:`lemma_bound_scan`, at tones in [0, K/2]: the
    close minimum and non-adjacent maximum of the magnitudes, NaN-propagating,
    the violation count, and the first five offenders as (j, column,
    magnitude, distance), in (j, column) order.

    The tones go in blocks of max(1, SMALL_ARRAY_BYTES // (8 K)) columns,
    each (K, columns) array under :data:`SMALL_ARRAY_BYTES`, through
    :func:`_scan_block`.  A block is classified from its near rows alone:
    they hold its close points (d <= 1/2), and every other row, with row
    F + 1 where d = 1 (an integer tone), is non-adjacent.  A block whose
    extremes break a bound, or are NaN, builds its distances and violation
    mask, where a NaN magnitude at a close or non-adjacent point is a
    violation."""
    floor = CLOSE_MAGNITUDE_MIN - SCAN_TOLERANCE
    cap = min(NON_ADJACENT_MAGNITUDE_MAX, NON_ADJACENT_ENVELOPE_MAX) + SCAN_TOLERANCE
    columns = max(1, SMALL_ARRAY_BYTES // (8 * K))
    min_close, max_nonadj, count, offenders = math.inf, 0.0, 0, []
    for start in range(0, tone.size, columns):
        block = tone[start:start + columns]
        mags, (near, dist) = _scan_block(block, K)
        points = np.arange(block.size)
        near_mags = mags[near, points]
        low = np.min(near_mags, where=dist <= 0.5, initial=math.inf)
        # the near rows leave the maximum unless d = 1, and come back if the
        # block fails
        mags[near, points] = np.where(dist >= 1.0, near_mags, -math.inf)
        high = np.max(mags, initial=0.0)
        min_close, max_nonadj = np.minimum(min_close, low), np.maximum(max_nonadj, high)
        # negated, so that a NaN extreme builds the mask and a NaN
        # magnitude counts as a violation
        if not (low >= floor and high <= cap):
            mags[near, points] = near_mags
            x = np.abs(np.arange(K)[:, None] - block)
            d = np.minimum(x, K - x, out=x)
            close, nonadj = d <= 0.5, d >= 1.0
            j_bad, t_bad = np.nonzero((close & ~(mags >= floor)) | (nonadj & ~(mags <= cap)))
            count += j_bad.size
            # a block's offenders are in (j, column) order, so K's first
            # five are among its blocks' first five
            offenders += [(int(j), start + int(t), float(mags[j, t]), float(d[j, t]))
                          for j, t in zip(j_bad[:5], t_bad[:5])]
    return min_close, max_nonadj, count, sorted(offenders)[:5]


def lemma_bound_scan(k_values: Sequence[int], n_theta: int) -> LemmaScanReport:
    """Scan theta in [0, pi] and every index j, checking the magnitude floor
    2/pi for close frequencies and the caps 10/(9 pi) and 1/(2 sqrt 2) for
    non-adjacent ones (the caps need K >= 4), each up to SCAN_TOLERANCE, at
    all sum(k_values) * n_theta points.  Each K scans its tones K theta /
    (2 pi) with :func:`_scan_tones`, and the extremes are kept across K with
    NaN-propagating minimum and maximum.  K's violations are its first five
    offenders in (j, theta) order, and the report keeps the first 20."""
    k_values = tuple(int(k) for k in k_values)
    if not k_values or min(k_values) < 4 or max(k_values) > 1024:
        raise ValueError("k_values must be a non-empty subset of [4, 1024]")
    n_theta = int(n_theta)
    if n_theta < 2:
        raise ValueError("need at least 2 theta grid points")
    thetas = np.linspace(0.0, math.pi, n_theta)
    violations: list[dict] = []
    violation_count = 0
    min_close, max_nonadj = math.inf, 0.0
    for K in k_values:
        k_close, k_nonadj, count, offenders = _scan_tones(K * thetas / TWO_PI, K)
        violation_count += count
        violations += [{"K": K, "j": j, "theta": float(thetas[t]), "magnitude": mag,
                        "distance": dist} for j, t, mag, dist in offenders]
        min_close, max_nonadj = np.minimum(min_close, k_close), np.maximum(max_nonadj, k_nonadj)
    min_close, max_nonadj = float(min_close), float(max_nonadj)
    return LemmaScanReport(
        k_values=k_values, n_theta=n_theta, tolerance=SCAN_TOLERANCE,
        points_checked=sum(k_values) * n_theta, violation_count=violation_count,
        violations=tuple(violations[:20]),
        min_close_magnitude=min_close,
        max_non_adjacent_magnitude=max_nonadj,
        close_margin=min_close - CLOSE_MAGNITUDE_MIN,
        non_adjacent_margin=NON_ADJACENT_MAGNITUDE_MAX - max_nonadj,
        envelope_margin=NON_ADJACENT_ENVELOPE_MAX - max_nonadj,
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
