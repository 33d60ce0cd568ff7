"""Expected Fourier spectrum of a uniformly sampled phase tone.

Averaging outcome pairs of the unit-modulus signal g(k) = exp(i k theta) over
times k = 0, ..., K-1 yields coefficient expectations that factor through the
periodic kernel

    S_K(x) = sin(pi x) / (K sin(pi x / K)),

a normalized Dirichlet kernel: coefficient j has magnitude
|S_K(j - K theta / (2 pi))|.  This module evaluates the kernel and the full
complex coefficients in closed form, and, for any noise model, the exact
mean and run-noise variance of what a run estimates
(:func:`expected_coefficients`, in about 24 bytes per index).

Two magnitude landmarks make peak picking robust: a frequency within half a
bin of the tone has magnitude at least 2/pi, while a frequency one bin or
more away has magnitude at most 1/(K sin(pi/K)), which for K >= 4 is at most
1/(2 sqrt 2) <= 10/(9 pi).  The gap of 8/(9 pi) between the two levels is the
buffer that statistical estimates of the coefficients are allowed to consume.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import TWO_PI, check_grid_size
from .noise import NoiseModel, biases_at

CLOSE_MAGNITUDE_MIN = 2.0 / math.pi
NON_ADJACENT_MAGNITUDE_MAX = 10.0 / (9.0 * math.pi)
# Envelope value 1/(K sin(pi/K)) at K = 4, the worst case over K >= 4.
NON_ADJACENT_ENVELOPE_MAX = 1.0 / (2.0 * math.sqrt(2.0))

# glibc's malloc maps a block of 128 KiB or more with mmap, but freeing such a
# block raises that threshold to the block's size; from then on blocks that
# size stay in the heap, where each thread's arena may keep up to twice as much
# freed memory, so peak RSS creeps up call after call.  The per-call arrays of
# the oracle and rfe.verify's coefficient law, and the per-block float arrays
# of expected_coefficients, therefore stay below this many bytes (a margin
# under 128 KiB for malloc's chunk header).
SMALL_ARRAY_BYTES = 120 * 1024


def validate_phase(theta: float) -> float:
    """Check that theta is usable as a simulation phase.

    Any value in [0, 2*pi) is accepted; accuracy guarantees are only claimed
    for theta in [0, pi] (estimates are returned unfolded, so indices past
    K/2 map to phases above pi).
    """
    theta = float(theta)
    if not math.isfinite(theta) or not 0.0 <= theta < TWO_PI:
        raise ValueError(f"phase must lie in [0, 2*pi), got {theta!r}")
    return theta


def dirichlet_kernel(x, grid_size: int):
    """Evaluate S_K(x) = sin(pi x) / (K sin(pi x / K)).

    Total function: the removable singularities at x = m K (m integer) are
    filled with their limit (-1)^(m (K-1)).  Accepts scalars or arrays.  The
    argument is folded into [-K/2, K/2] before evaluation (|S_K| is
    K-periodic), and the numerator sine is reduced to its nearest zero, so
    values stay relatively accurate arbitrarily close to the singularities:
    sin(pi r) = (-1)^n sin(pi (r - n)) with n = rint(r), where r - n is an
    exact difference and the parity is exact.
    """
    K = check_grid_size(grid_size)
    xs = np.asarray(x, dtype=float)
    r = np.mod(xs, K)
    folded = r > K / 2.0
    m = np.rint((xs - r) / K) + folded
    r = np.where(folded, r - K, r)
    sign = np.where(np.mod(m * (K - 1), 2.0) == 0.0, 1.0, -1.0)
    n = np.rint(r)
    numerator = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0) * np.sin(np.pi * (r - n))
    # |pi r / K| <= pi/2 keeps the denominator clear of every sine zero
    # except r = 0, which is the removable point handled explicitly.
    zero = r == 0.0
    den = np.where(zero, 1.0, K * np.sin(np.pi * r / K))
    out = sign * np.where(zero, 1.0, numerator / den)
    return float(out) if out.ndim == 0 else out


def expected_spectrum(theta: float, grid_size: int) -> np.ndarray:
    """All K expected coefficients of a tone at phase theta, as a complex
    array of length K; K above :data:`rfe.bounds.MAX_GRID_SIZE` is refused
    before anything is built.

    Coefficient j equals (1/K) sum_k exp(i k theta) exp(-2 pi i j k / K),
    evaluated in the well-conditioned product form
    exp(-i pi x (K-1)/K) * S_K(x) with x = j - K theta / (2 pi).  On-grid
    phases (theta = 2 pi j / K) hit the removable singularity and give 1,
    the limit.
    """
    K = check_grid_size(grid_size)
    theta = validate_phase(theta)
    x = np.arange(K) - K * theta / TWO_PI
    return np.exp(-1j * np.pi * x * (K - 1) / K) * dirichlet_kernel(x, K)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_tail(x: np.ndarray) -> np.ndarray:
    """P(Z > x) for a standard normal Z, elementwise, from math.erfc (no
    cancellation far out in either tail)."""
    return 0.5 * _erfc(x / math.sqrt(2.0)).astype(float)


def clipped_normal_moments(b, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of clip(b + eta, -1, 1) for eta ~ N(0, sigma^2),
    elementwise over the broadcast arrays ``b`` and ``sigma``.

    With a = -1 - b and c = 1 - b, clip(b + eta) - b is eta clipped to
    [a, c], whose moments are those of a normal censored at a and c:
    weights Phi(a/sigma) at a and 1 - Phi(c/sigma) at c, and the truncated
    normal's moments in between, in phi(a/sigma) and phi(c/sigma).  Working
    with that shift, not with b + eta, keeps the variance free of the
    cancellation b^2 + ... - b^2.  Where sigma is 0 the value is clip(b)
    with variance 0.
    """
    b, sigma = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(sigma, dtype=float))
    a, c = -1.0 - b, 1.0 - b
    shift = np.clip(0.0, a, c)
    variance = np.zeros(b.shape)
    noisy = sigma > 0.0
    if noisy.any():
        s, a, c = sigma[noisy], a[noisy], c[noisy]
        lo, hi = a / s, c / s
        below, above = _normal_tail(-lo), _normal_tail(hi)
        dens_lo = np.exp(-0.5 * lo * lo) / math.sqrt(TWO_PI)
        dens_hi = np.exp(-0.5 * hi * hi) / math.sqrt(TWO_PI)
        mean = a * below + c * above + s * (dens_lo - dens_hi)
        square = (a * a * below + c * c * above
                  + s * s * (1.0 - below - above + lo * dens_lo - hi * dens_hi))
        shift[noisy] = mean
        variance[noisy] = np.maximum(square - mean * mean, 0.0)
    return b + shift, variance


def expected_coefficients(model: NoiseModel, theta: float,
                          grid_size: int) -> tuple[np.ndarray, float]:
    """(E f_j, Var_eta mu_j) of a run of ``model`` at phase theta on a grid
    of K, exact for any sample count M.

    A sample's outcome c has mean clip(b_x, -1, 1) at a time with bias b_x,
    and s likewise, so E f_j = FFT(E clip b_x + i E clip b_y)_j / K, with b
    from :func:`rfe.noise.biases_at` without run noise.  The run noise adds
    independent N(0, sigma_k^2) deviations to both biases at each time, with
    sigma_k = ``model.scale(ks)`` (0 for a deterministic model), so the
    clipped means and variances come from :func:`clipped_normal_moments`,
    and the run's conditional mean mu_j varies with the noise by
    Var_eta mu_j = sum_k (Var clip b_x,k + Var clip b_y,k) / K^2, the same
    at every j.  A single run's coefficient then has
    Var f_j = (2 - |E f_j|^2 - Var_eta mu_j) / M + Var_eta mu_j.

    The moments go in blocks of SMALL_ARRAY_BYTES // 8 times into one
    complex and one float array of length K, and the FFT overwrites the
    complex one, so the working memory is about 24 bytes per index plus a
    block's, whatever the model.  A bias or sigma_k that is not finite
    raises ValueError, as in a run.
    """
    K = check_grid_size(grid_size)
    theta = validate_phase(theta)
    values, variance = np.empty(K, dtype=complex), np.empty(K)
    block = SMALL_ARRAY_BYTES // 8
    for start in range(0, K, block):
        ks = np.arange(start, min(start + block, K))
        bx, by = biases_at(model, theta, ks)
        sigma = model.scale(ks)
        if not all(np.isfinite(v).all() for v in (bx, by, sigma)):
            raise ValueError("bias values must be finite")
        mean_x, var_x = clipped_normal_moments(bx, sigma)
        mean_y, var_y = clipped_normal_moments(by, sigma)
        values[start:start + ks.size] = mean_x + 1j * mean_y
        variance[start:start + ks.size] = var_x + var_y
    mean = np.fft.fft(values, out=values)
    mean /= K
    return mean, float(np.sum(variance)) / (K * K)
