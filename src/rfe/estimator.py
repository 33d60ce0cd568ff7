"""Randomized Fourier estimation of a phase from simulated Hadamard tests.

One run takes M samples: a time index k_i uniform on {0, ..., K-1} and an
outcome pair (c_i, s_i) from the (possibly noise-perturbed) likelihoods at
k_i.  It forms the K coefficient estimates

    f_j = (1/M) sum_i (c_i + i s_i) exp(-2 pi i k_i j / K)
        = (1/M) sum_k (C_k + i S_k) exp(-2 pi i k j / K),

where C_k and S_k sum the outcomes drawn at time k, and returns
theta_hat = (2 pi / K) * argmax_j |f_j| (ties to the smallest j).  The
per-time sums are sufficient, so the sampler returns only them, and one
length-K discrete Fourier transform, written over the sums themselves,
finishes the run: one K-long complex array per run whatever M is.

:func:`run_block` is the one engine: it runs B estimations at once, with one
transform along the time axis of a (B, K) complex sum buffer.  Both regimes
build the biases, ideal cos/sin plus the model's deviation, at the whole
grid when M > K and only at the distinct (run, time) cells of the drawn
times when M <= K.  Only the outcome draw then differs: per-time counts and
sums from the (B, K) biases (:func:`rfe.sampler.sample_outcome_sums`), or
one c and s uniform per sample (:func:`rfe.sampler.sums_at_times`), so a
sparse run costs O(M) work plus the sum buffer, the transform and the peak
pick.  Neither the run noise nor the (B, M) time indices live through the
outcome draw, and the sampler returns plain sums: where they sit in the
buffer is decided here alone.  :func:`run_rfe` is a block of one.

The transform.  Below :data:`SPLIT_MIN_GRID`, and for a K with no divisor in
(1, sqrt K], it is one ``np.fft.fft`` per row.  From there up it takes two
passes over K = n1 n2, n1 the largest divisor of K not above sqrt K, with
the sums of time k = k1 + n1 k2 at slot k1 n2 + k2 of the row
(:func:`sum_slots`, :func:`time_order`): length-n2 FFTs along the rows of
the (B, n1, n2) view, one product with the twiddle table W_K^(k1 j2), then
length-n1 FFTs down its columns, all in place, which leaves f_j at slot j,
in natural order.  numpy's FFT keeps no plan cache, so one long transform
builds its plan and scratch, about 1.8 MB at K = 62,832, afresh on every
call; the short ones need little of either.  The twiddle table of the last
split grid is cached, read-only, 16 bytes per grid index (64 MiB at K =
2**22), and built at that grid's first run.  ``lru_cache`` does not hold
back concurrent first calls, so :func:`rfe.harness.monte_carlo_success`
builds it before its threads start, and they share one table.

Depth accounting: total_depth sums the drawn k_i.  Each draw executes two
circuits (one per outcome of the pair), so the circuit count is 2M and the
controlled-unitary count is 2 * total_depth; totals here follow the
one-test-per-draw convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bounds import MAX_SAMPLES, TWO_PI, bounds_report, check_grid_size, check_seed
from .noise import Ideal, NoiseModel, biases_at
from .sampler import draw_times, sample_outcome_sums, sums_at_times
from .spectrum import validate_phase


@dataclass(frozen=True, eq=False)
class TrialResult:
    """One run's output: theta_hat = 2 pi winning_index / grid_size, the
    estimated coefficients (each |f_j| <= sqrt(2)) and the run's provenance."""

    theta_hat: float
    winning_index: int
    coefficients: np.ndarray  # complex, length grid_size
    samples_used: int
    total_depth: int
    clamp_count: int


def winning_frequency(coefficients: np.ndarray):
    """Index of the largest-magnitude coefficient along the last axis,
    smallest index on ties: one index per row of a (B, K) block."""
    return np.argmax(np.abs(np.asarray(coefficients)), axis=-1)


# Grid sizes from this one up take the two-pass transform when they split:
# below it one np.fft.fft is as fast or faster (the crossover table in CHANGES.md).
SPLIT_MIN_GRID = 2 ** 13


@functools.lru_cache(maxsize=1)
def _cached_split(K: int):
    """The read-only (n1, n2) twiddle table of K = n1 n2, n1 the largest
    divisor of K not above sqrt K: twiddles[k1, j2] = exp(-2 pi i k1 j2 / K),
    where k1 j2 <= (n1 - 1)(n2 - 1) < K needs no reduction mod K and is exact
    in floats.  None when n1 is 1."""
    n1 = math.isqrt(K)
    while K % n1:
        n1 -= 1
    if n1 == 1:
        return None
    twiddles = np.empty((n1, K // n1), dtype=complex)
    angles = twiddles.real
    np.multiply.outer(np.arange(n1, dtype=float), np.arange(K // n1, dtype=float), out=angles)
    angles *= -TWO_PI / K
    np.sin(angles, out=twiddles.imag)
    np.cos(angles, out=angles)
    twiddles.flags.writeable = False
    return twiddles


def grid_split(grid_size: int):
    """How :func:`transform_sums` transforms a K grid: None for one
    ``np.fft.fft``, below :data:`SPLIT_MIN_GRID` or when K has no divisor in
    (1, sqrt K]; else the cached (n1, n2) twiddle table of the two passes."""
    return None if grid_size < SPLIT_MIN_GRID else _cached_split(grid_size)


def time_order(z: np.ndarray, twiddles) -> np.ndarray:
    """A view of the (B, K) sum buffer ``z`` whose row b, read in C order,
    runs over the times: ``z`` itself without a split, else the (B, n2, n1)
    transpose of its (B, n1, n2) grid, with time k = k1 + n1 k2 at
    [b, k2, k1], the slot :func:`sum_slots` gives."""
    if twiddles is None:
        return z
    return z.reshape(z.shape[0], *twiddles.shape).transpose(0, 2, 1)


def sum_slots(ks, twiddles):
    """The slot in a row of the sum buffer that holds the sums of time k,
    for each k of ``ks``: k itself without a split, else k1 n2 + k2 for
    k = k1 + n1 k2, so that :func:`transform_sums` ends in natural order."""
    if twiddles is None:
        return ks
    n1, n2 = twiddles.shape
    k2, k1 = np.divmod(ks, n1)
    k1 *= n2
    k1 += k2
    return k1


def transform_sums(z: np.ndarray, twiddles) -> np.ndarray:
    """The length-K DFT of each row of the (B, K) complex sums ``z``, laid
    out by :func:`sum_slots` (or written through :func:`time_order`) for
    ``twiddles`` (:func:`grid_split`), in place: returns ``z`` with
    coefficient j at index j."""
    if twiddles is None:
        return np.fft.fft(z, axis=1, out=z)
    grid = z.reshape(z.shape[0], *twiddles.shape)
    np.fft.fft(grid, axis=2, out=grid)
    grid *= twiddles
    np.fft.fft(grid, axis=1, out=grid)
    return z


def run_block(thetas, samples: int, grid_size: int, noise: NoiseModel,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run B independent estimations at once, one per phase in ``thetas``.

    Returns the (B, K) coefficient estimates, row b for thetas[b], and the
    B runs' total depths and clamp counts.  The biases, run noise included,
    are built at every time of the grid when M > K and at the distinct
    (run, time) cells of the drawn indices when M <= K, so a run's noise at
    a time is the same for every sample there, and freed before the outcome
    draw.  This function alone allocates the (B, K) complex buffer, after the
    draw, puts the sums of time k at the slot :func:`sum_slots` gives and
    transforms it in place into the coefficients.  A Gaussian run at K =
    2**20 peaks at 118 B per sample (M = K) or 88 B per time (M = 2K).
    ``rng`` is consumed in a fixed order:

    * M > K: the run noise of each run, if the model has it, then the
      per-time counts of all B runs, then their c sums, then their s sums;
    * M <= K: the (B, M) time indices, then the run noise at the cells,
      eta1 at every cell then eta2, if the model has it, then the c and s
      uniforms of each sample, run by run.  No noise, cos/sin or bias array
      is longer than B M.

    The phases are used as given: :func:`run_rfe` checks its phase with
    :func:`validate_phase`, the campaign's phase samplers draw in [0, 2 pi),
    and a non-finite phase or run noise fails the sampler's finiteness
    check.  A grid above :data:`rfe.bounds.MAX_GRID_SIZE` is refused before
    anything is drawn.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ValueError("phases must be a 1-d array")
    K = check_grid_size(grid_size)
    M = int(samples)
    if M < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    twiddles = grid_split(K)
    B = thetas.size
    if M > K:
        ks, phases, size = np.arange(K), thetas[:, None], B
    else:
        cells, inverse, depth = draw_times(B, K, M, rng)
        runs, ks = np.divmod(cells, K)
        phases, size = thetas[runs], None
    bx, by = biases_at(noise, phases, ks, noise.draw_run_noise(ks, rng, size))
    if M > K:
        sums, depth, clamps = sample_outcome_sums(bx, by, M, rng)
        z = np.empty((B, K), dtype=complex)
        ordered = time_order(z, twiddles)
        ordered.real[...], ordered.imag[...] = sums.reshape(2, *ordered.shape)
    else:
        sums, clamps = sums_at_times(inverse, bx, by, rng)
        z = np.zeros((B, K), dtype=complex)
        flat, slots = z.reshape(-1), sum_slots(ks, twiddles) + runs * K
        flat.real[slots], flat.imag[slots] = sums
    coefficients = transform_sums(z, twiddles)
    # numpy's complex division by M runs a scalar loop; scaling both parts by
    # 1/M is the product it forms, so the bits agree wherever no part is -0.0
    coefficients.view(float)[...] *= 1.0 / M
    return coefficients, depth, clamps


def run_rfe(samples: int, grid_size: int, theta: float, noise: NoiseModel = Ideal(),
            seed: int = 0) -> TrialResult:
    """Execute one randomized-Fourier-estimation run: :func:`run_block` with
    one phase and the generator seeded by ``seed``, so equal arguments give
    bitwise-equal results.  Before anything is drawn, samples must lie in
    [1, 2**62], then the grid size, the phase and the seed are checked."""
    if not 1 <= int(samples) <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in [1, 2**62], got {samples}")
    K = check_grid_size(grid_size)
    theta = validate_phase(theta)
    rng = np.random.default_rng(check_seed(seed))
    coefficients, depth, clamps = run_block([theta], samples, K, noise, rng)
    j = int(winning_frequency(coefficients)[0])
    return TrialResult(theta_hat=TWO_PI * j / K, winning_index=j,
                       coefficients=coefficients[0], samples_used=int(samples),
                       total_depth=int(depth[0]), clamp_count=int(clamps[0]))


def no_sample_result(grid_size: int) -> TrialResult:
    """The answer of a plan with no samples, the epsilon >= pi/2 regime of
    :func:`rfe.bounds.bounds_report`: theta_hat = pi/2 is epsilon-accurate
    for any phase in [0, pi], encoded as winning index 1 on the plan's grid."""
    return TrialResult(theta_hat=math.pi / 2.0, winning_index=1,
                       coefficients=np.zeros(grid_size, dtype=complex),
                       samples_used=0, total_depth=0, clamp_count=0)


def estimate_phase(epsilon: float, delta: float, noise: NoiseModel,
                   theta: float, seed: int = 0) -> TrialResult:
    """Run with sample count and grid size certified for (epsilon, delta).

    The phase is checked first.  epsilon >= pi/2 returns
    :func:`no_sample_result` without sampling.  Noise at or past its
    threshold, or a certified count above 2**62, raises
    :class:`rfe.bounds.BoundsUnachievable` rather than running unguaranteed.
    """
    validate_phase(theta)
    plan = bounds_report(epsilon, delta, noise)
    if plan.samples == 0:
        return no_sample_result(plan.grid_size)
    return run_rfe(plan.samples, plan.grid_size, theta, noise, seed)


def trial_to_dict(result: TrialResult) -> dict:
    """JSON-ready description of a trial result."""
    return {
        "theta_hat": float(result.theta_hat),
        "winning_index": int(result.winning_index),
        "spectrum": {
            "samples_used": int(result.samples_used),
            "total_depth": int(result.total_depth),
            "clamp_count": int(result.clamp_count),
            "coefficients": [[float(v.real), float(v.imag)] for v in result.coefficients],
        },
    }


# CSV rows formatted at a time, so a large grid's text is never held whole
CSV_CHUNK_ROWS = 65536


def spectrum_csv_chunks(coefficients: np.ndarray) -> Iterator[str]:
    """CSV dump of a coefficient vector, one row (j, re, im, abs) per index,
    in pieces: the header, then at most CSV_CHUNK_ROWS rows at a time."""
    coefficients = np.asarray(coefficients)
    yield "j,re,im,abs\n"
    for start in range(0, len(coefficients), CSV_CHUNK_ROWS):
        rows = map(complex, coefficients[start:start + CSV_CHUNK_ROWS])
        yield "".join(f"{j},{v.real!r},{v.imag!r},{abs(v)!r}\n" for j, v in enumerate(rows, start))
