"""Randomized Fourier estimation of an eigenphase, with noise models,
guaranteed resource counts, and a seeded verification harness.

The quantum side is never simulated at the state level: outcomes of the
real/imaginary Hadamard-test pair are drawn directly from their likelihoods
(1 +- bias)/2, where the bias encodes the signal exp(i k theta) plus the
active noise model's deviations.
"""

__version__ = "0.1.0"
