"""Hadamard-test outcomes drawn straight to the sums the estimator reads.

One sample draws a time index k uniformly from {0, ..., K-1} and a pair of
+-1 outcomes (c, s) from independent likelihoods Pr(c=+1) = (1 + bx[k])/2
and Pr(s=+1) = (1 + by[k])/2 (two separate circuit executions, so no shared
randomness within a pair).  The estimator only reads the per-time sums of c
and s, the total depth sum k and the clamp count, so
:func:`sample_outcome_sums` returns those and nothing per sample.

Biases outside [-1, 1] make the raw probabilities non-physical; they are
clamped to [0, 1] and every sample drawn at such a time counts as a clamp
event, so experiments can see how often a noise model left the physical
regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A probability changed by more than this during clamping counts as a clamp
# event; smaller changes are rounding noise.
CLAMP_TOLERANCE = 1e-15

_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True, eq=False)
class OutcomeSums:
    """Sufficient statistics of M samples over K times."""

    z: np.ndarray  # complex, length K: (sum of c) + i (sum of s) at each time k
    total_depth: int  # sum of the drawn time indices
    clamp_count: int  # samples drawn at a time whose likelihood was clamped


def _finite_pair(bx, by) -> tuple[np.ndarray, np.ndarray]:
    bx = np.asarray(bx, dtype=float)
    by = np.asarray(by, dtype=float)
    if bx.shape != by.shape or bx.ndim != 1:
        raise ValueError("bias arrays must be equal-length 1-d sequences")
    if not (np.all(np.isfinite(bx)) and np.all(np.isfinite(by))):
        raise ValueError("bias values must be finite")
    return bx, by


def _likelihoods(bx: np.ndarray, by: np.ndarray):
    """Clamped Pr(+1) of c and of s, and where either needed clamping."""
    p_c_raw = (1.0 + bx) / 2.0
    p_s_raw = (1.0 + by) / 2.0
    p_c = np.clip(p_c_raw, 0.0, 1.0)
    p_s = np.clip(p_s_raw, 0.0, 1.0)
    clamped = (np.abs(p_c - p_c_raw) > CLAMP_TOLERANCE) | (np.abs(p_s - p_s_raw) > CLAMP_TOLERANCE)
    return p_c, p_s, clamped


def sample_pairs(bx: np.ndarray, by: np.ndarray, rng: np.random.Generator):
    """Outcome pairs for per-sample bias arrays.

    Returns (c, s, clamped): two float arrays of +-1 values and a boolean
    array marking samples whose likelihood needed clamping.  Uniforms are
    consumed in C order: c then s for each sample.
    """
    bx, by = _finite_pair(bx, by)
    p_c, p_s, clamped = _likelihoods(bx, by)
    u = rng.random((bx.shape[0], 2))
    c = np.where(u[:, 0] < p_c, 1.0, -1.0)
    s = np.where(u[:, 1] < p_s, 1.0, -1.0)
    return c, s, clamped


def sample_outcome_sums(bx, by, samples: int, rng: np.random.Generator) -> OutcomeSums:
    """Draw ``samples`` outcome pairs over the bias tables (bx[k], by[k]) and
    return their per-time sums, total depth and clamp count.

    With M samples over K times, M > K draws the per-time counts
    n ~ Multinomial(M, 1/K), then sum c_k = 2 Binomial(n_k, p_c[k]) - n_k and
    sum s_k the same way: O(K) time and memory, whatever M is.  M <= K draws
    M time indices, then one outcome pair per index with
    :func:`sample_pairs`: O(M), cheaper when most times get no sample.  Both
    give the same joint law of the returned values; they consume ``rng``
    differently (counts, c sums, s sums against indices, then c and s
    uniforms per sample).
    """
    bx, by = _finite_pair(bx, by)
    K = bx.shape[0]
    M = int(samples)
    if K < 1:
        raise ValueError("bias tables must cover at least one time")
    if M < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    if M <= K:
        ks = rng.integers(0, K, size=M)
        c, s, clamped = sample_pairs(bx[ks], by[ks], rng)
        z = np.bincount(ks, weights=c, minlength=K) + 1j * np.bincount(ks, weights=s, minlength=K)
        return OutcomeSums(z=z, total_depth=int(ks.sum()), clamp_count=int(clamped.sum()))
    p_c, p_s, clamped = _likelihoods(bx, by)
    n = rng.multinomial(M, np.full(K, 1.0 / K))
    c = 2 * rng.binomial(n, p_c) - n
    z = c + 1j * (2 * rng.binomial(n, p_s) - n)
    if M * (K - 1) <= _INT64_MAX:
        total_depth = int(np.arange(K) @ n)
    else:  # the int64 dot product would wrap; Python integers do not
        total_depth = sum(k * count for k, count in enumerate(n.tolist()))
    return OutcomeSums(z=z, total_depth=total_depth, clamp_count=int(n[clamped].sum()))
