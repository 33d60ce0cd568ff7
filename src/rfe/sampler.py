"""Hadamard-test outcomes drawn straight to the sums the estimator reads.

One sample draws a time index k uniformly from {0, ..., K-1} and a pair of
+-1 outcomes (c, s) from independent likelihoods Pr(c=+1) = (1 + bx[k])/2
and Pr(s=+1) = (1 + by[k])/2 (two separate circuit executions, so no shared
randomness within a pair).  The estimator only reads the per-time sums of c
and s, the total depth sum k and the clamp count, so the sampler returns
those and nothing per sample.

There are two ways to draw the sums.  :func:`sample_outcome_sums` draws the
per-time counts, then the c and s sums in one binomial call over (2, B, K)
likelihoods, from (B, K) bias tables, one run per row: O(K) work per run
whatever M is, which pays when M > K.  With M <= K most times get no sample,
so the times come first: :func:`draw_times` draws the (B, M) time indices
and finds the distinct (run, time) cells among them, the caller evaluates
the biases at those cells only (and draws any run noise there, so repeated
times in a run share it), and :func:`sums_at_times` draws one outcome pair
per sample and sums them per cell: O(M) work.  Either draw returns its sums
as plain integer or float arrays; where they go for the transform is the
estimator's business.

Biases outside [-1, 1] make the raw probabilities non-physical; they are
clamped to [0, 1] and every sample drawn at such a time counts as a clamp
event, so experiments can see how often a noise model left the physical
regime.  The clamp passes run only when a probability leaves [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A probability changed by more than this during clamping counts as a clamp
# event; smaller changes are rounding noise.
CLAMP_TOLERANCE = 1e-15

_INT64_MAX = 2 ** 63 - 1


def _likelihoods(bx, by, ndim=1):
    """Pr(+1) of c and of s, clamped to [0, 1], as rows 0 and 1 of one array,
    and where either row needed clamping: None when no probability left
    [0, 1], as the clamp passes would find nothing.  Raises ValueError on a
    NaN or infinite bias."""
    if np.shape(bx) != np.shape(by) or np.ndim(bx) != ndim:
        raise ValueError(f"bias arrays must have equal shapes and {ndim} dimension(s)")
    p = np.array((bx, by), dtype=float)
    p += 1.0
    p /= 2.0
    # min/max propagate NaN, p is finite where the biases are; 0.5 lets empty blocks by
    lo, hi = p.min(initial=0.5), p.max(initial=0.5)
    if lo >= 0.0 and hi <= 1.0:
        return p, None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bias values must be finite")
    # minimum/maximum equal np.clip on finite input, without its dispatch cost
    clamped = np.minimum(np.maximum(p, 0.0), 1.0)
    return clamped, (np.abs(clamped - p) > CLAMP_TOLERANCE).any(axis=0)


def sample_pairs(bx: np.ndarray, by: np.ndarray, rng: np.random.Generator):
    """Outcome pairs for per-sample bias arrays.

    Returns (c, s, clamped): two float arrays of +-1 values and a boolean
    array marking samples whose likelihood needed clamping.  Uniforms are
    consumed in C order: c then s for each sample.
    """
    p, clamped = _likelihoods(bx, by)
    u = rng.random((p.shape[1], 2))
    c, s = np.where(u.T < p, 1.0, -1.0)
    return c, s, np.zeros(c.size, dtype=bool) if clamped is None else clamped


def _total_depths(n: np.ndarray, samples: int) -> np.ndarray:
    """sum_k k n[b, k] for each row b, exact at any sample count."""
    K = n.shape[1]
    if samples * (K - 1) <= _INT64_MAX:
        return n @ np.arange(K)
    # the int64 dot product would wrap; Python integers do not
    return np.array([sum(k * count for k, count in enumerate(row)) for row in n.tolist()],
                    dtype=object)


@dataclass(frozen=True, eq=False)
class SampledTimes:
    """The time indices of B runs of M samples each, and the distinct
    (run, time) cells among them."""

    ks: np.ndarray  # (B, M) time indices
    cells: np.ndarray  # sorted distinct flat cells b * K + k
    inverse: np.ndarray  # (B * M,) position in ``cells`` of each sample, run by run


def draw_times(runs: int, grid_size: int, samples: int,
               rng: np.random.Generator) -> SampledTimes:
    """Draw ``samples`` uniform time indices on {0, ..., K-1} for each of
    ``runs`` runs, one (B, M) integer draw, and find their distinct cells."""
    B, K = int(runs), int(grid_size)
    ks = rng.integers(0, K, size=(B, int(samples)))
    flat = ks + K * np.arange(B)[:, None]
    cells, inverse = np.unique(flat.ravel(), return_inverse=True)
    return SampledTimes(ks=ks, cells=cells, inverse=inverse)


def sums_at_times(times: SampledTimes, bx, by, rng: np.random.Generator):
    """Draw one outcome pair per sample of ``times`` and return (sums,
    total_depth, clamp_count): the c and s sums at each of ``times.cells``
    as a pair of float arrays, and the B runs' depths and clamp counts.

    ``bx`` and ``by`` hold the unclamped biases at ``times.cells``, one per
    cell; every sample at a cell reads that cell's entry through
    ``times.inverse``.  The uniforms are consumed as :func:`sample_pairs`
    does, sample by sample in run order.
    """
    c, s, clamped = sample_pairs(bx[times.inverse], by[times.inverse], rng)
    count = times.cells.size
    sums = (np.bincount(times.inverse, weights=c, minlength=count),
            np.bincount(times.inverse, weights=s, minlength=count))
    return sums, times.ks.sum(axis=1), clamped.reshape(times.ks.shape).sum(axis=1)


def sample_outcome_sums(bx, by, samples: int, rng: np.random.Generator):
    """Draw ``samples`` outcome pairs for each run of the (B, K) bias tables
    and return (sums, total_depth, clamp_count): the (2, B, K) integer c and
    s sums at each time, and the B runs' depths and clamp counts.

    Row b is one run of M samples over (bx[b], by[b]).  The per-time counts
    n ~ Multinomial(M, 1/K) are drawn for all rows, then one binomial call
    over the (2, B, K) likelihoods draws sum c_k = 2 Binomial(n_k, p_c[k]) -
    n_k for all rows and then sum s_k the same way: O(BK) time and memory,
    whatever M is.  This law holds at any M; with M <= K,
    :func:`draw_times` and :func:`sums_at_times` give the same joint law of
    the returned values in O(M) work, consuming ``rng`` differently.
    """
    p, clamped = _likelihoods(bx, by, ndim=2)
    _, B, K = p.shape
    M = int(samples)
    if K < 1:
        raise ValueError("bias tables must cover at least one time")
    if M < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    n = rng.multinomial(M, np.full(K, 1.0 / K), size=B)
    sums = 2 * rng.binomial(n, p) - n
    clamps = np.zeros(B, dtype=n.dtype) if clamped is None else (n * clamped).sum(axis=1)
    return sums, _total_depths(n, M), clamps
