"""Likelihood-level error models for simulated Hadamard-test pairs.

A model perturbs the ideal outcome biases (cos k*theta, sin k*theta) with
additive deviations (eta1[k], eta2[k]), i.e. the +1 outcome probabilities
become (1 + cos(k theta) + eta1[k]) / 2 and (1 + sin(k theta) + eta2[k]) / 2.
Six model kinds are provided:

* ``Ideal``          -- no deviation.
* ``Ban``            -- bounded adversarial: arbitrary deviations with
                        |eta| <= eta_bar, realized through built-in
                        strategies or a custom deviation table.
* ``Gaussian``       -- deviations drawn once per run, i.i.d. N(0, sigma^2).
* ``GaussianLinear`` -- variant with per-time scale sigma_k = k * sigma
                        (error accumulating with circuit depth; no
                        sample-count guarantee is claimed for it).
* ``Dephasing``      -- exponential envelope exp(-k/T2) on both biases,
                        equivalently eta1[k] = (exp(-k/T2) - 1) cos(k theta).
* ``HighCoherence``  -- linearization of dephasing for k << T2:
                        bias shifted by +k/T2.

Biases are produced *unclamped*; probabilities outside [0, 1] (possible under
Ban/Gaussian/HighCoherence at extreme parameters) are clamped and counted by
the sampler, keeping physicality violations observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np


class AdversaryStrategy(str, Enum):
    """Built-in ways an adversary can spend its deviation budget."""

    ZERO = "zero"
    CONSTANT_PLUS = "constant_plus"
    CONSTANT_MINUS = "constant_minus"
    # eta1[k] = -eta_bar * sign(cos k theta), eta2[k] analogously: pushes
    # every bias toward zero, suppressing the signal magnitude.
    SIGN_FLIP = "sign_flip"


@dataclass(frozen=True, eq=False)
class DeviationTable:
    """Fixed per-time deviations, indexed by time k on the last axis; a 2-d
    table holds one row per run.  Immutable once built."""

    eta1: np.ndarray
    eta2: np.ndarray

    def __post_init__(self):
        eta1 = np.array(self.eta1, dtype=float)
        eta2 = np.array(self.eta2, dtype=float)
        if eta1.ndim not in (1, 2) or eta1.shape != eta2.shape:
            raise ValueError("deviation table needs two equal-shape 1-d or 2-d arrays")
        if not (np.all(np.isfinite(eta1)) and np.all(np.isfinite(eta2))):
            raise ValueError("deviation table entries must be finite")
        eta1.setflags(write=False)
        eta2.setflags(write=False)
        object.__setattr__(self, "eta1", eta1)
        object.__setattr__(self, "eta2", eta2)

    def __len__(self) -> int:
        return self.eta1.shape[-1]

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.eta1)), np.max(np.abs(self.eta2))))


@dataclass(frozen=True)
class Ideal:
    """Noise-free Hadamard tests."""


@dataclass(frozen=True, eq=False)
class Ban:
    """Bounded adversarial noise: |eta1[k]|, |eta2[k]| <= eta_bar for all k.

    ``strategy`` is either a built-in :class:`AdversaryStrategy` or a custom
    :class:`DeviationTable` (validated against eta_bar at construction).
    """

    eta_bar: float
    strategy: Union[AdversaryStrategy, DeviationTable] = AdversaryStrategy.SIGN_FLIP

    def __post_init__(self):
        if not math.isfinite(self.eta_bar) or self.eta_bar < 0.0:
            raise ValueError(f"eta_bar must be finite and >= 0, got {self.eta_bar!r}")
        if isinstance(self.strategy, DeviationTable):
            if self.strategy.eta1.ndim != 1:
                raise ValueError("custom deviation table must be 1-d: one table for every run")
            if len(self.strategy) == 0:
                raise ValueError("custom deviation table must not be empty")
            if self.strategy.max_abs() > self.eta_bar:
                raise ValueError(
                    f"custom deviations exceed eta_bar={self.eta_bar}: "
                    f"max |eta| = {self.strategy.max_abs()}"
                )
        elif not isinstance(self.strategy, AdversaryStrategy):
            raise ValueError(f"unknown adversary strategy {self.strategy!r}")


@dataclass(frozen=True)
class Gaussian:
    """Deviations ~ N(0, sigma^2), drawn once per run and then fixed."""

    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")


@dataclass(frozen=True)
class GaussianLinear:
    """Gaussian variant with depth-proportional scale sigma_k = k * sigma."""

    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")


@dataclass(frozen=True)
class Dephasing:
    """Exponential bias decay exp(-k/T2); t2 counts applications of the
    controlled unitary (one unit = one power of it)."""

    t2: float

    def __post_init__(self):
        if math.isnan(self.t2) or not self.t2 > 0.0:
            raise ValueError(f"t2 must be > 0, got {self.t2!r}")


@dataclass(frozen=True)
class HighCoherence:
    """Linearized dephasing, valid for k << T2: bias += k/T2."""

    t2: float

    def __post_init__(self):
        if math.isnan(self.t2) or not self.t2 > 0.0:
            raise ValueError(f"t2 must be > 0, got {self.t2!r}")


NoiseModel = Union[Ideal, Ban, Gaussian, GaussianLinear, Dephasing, HighCoherence]


def _require_cover(table: DeviationTable, ks: np.ndarray, what: str) -> None:
    if ks.size and int(ks.max()) >= len(table):
        raise ValueError(
            f"{what} table of length {len(table)} does not cover time index {int(ks.max())}"
        )


def _bias_arrays(model: NoiseModel, theta: float | np.ndarray, ks: np.ndarray,
                 run_noise: Optional[DeviationTable]):
    if (ks < 0).any():
        raise ValueError("time indices must be >= 0")
    kf = ks.astype(float)
    cos_k = np.cos(kf * theta)
    sin_k = np.sin(kf * theta)
    if isinstance(model, Ideal):
        return cos_k, sin_k
    if isinstance(model, Ban):
        strategy = model.strategy
        if isinstance(strategy, DeviationTable):
            _require_cover(strategy, ks, "custom adversary")
            return cos_k + strategy.eta1[ks], sin_k + strategy.eta2[ks]
        e = model.eta_bar
        if strategy is AdversaryStrategy.ZERO:
            return cos_k, sin_k
        if strategy is AdversaryStrategy.CONSTANT_PLUS:
            return cos_k + e, sin_k + e
        if strategy is AdversaryStrategy.CONSTANT_MINUS:
            return cos_k - e, sin_k - e
        if strategy is AdversaryStrategy.SIGN_FLIP:
            return cos_k - e * np.sign(cos_k), sin_k - e * np.sign(sin_k)
        raise ValueError(f"unknown adversary strategy {strategy!r}")
    if isinstance(model, (Gaussian, GaussianLinear)):
        if run_noise is None:
            raise ValueError(
                "gaussian models need a run-noise table (drawn once per run); "
                "see draw_run_noise"
            )
        _require_cover(run_noise, ks, "run noise")
        return (cos_k + np.take(run_noise.eta1, ks, axis=-1),
                sin_k + np.take(run_noise.eta2, ks, axis=-1))
    if isinstance(model, Dephasing):
        envelope = np.exp(-kf / model.t2)
        return envelope * cos_k, envelope * sin_k
    if isinstance(model, HighCoherence):
        drift = kf / model.t2
        return cos_k + drift, sin_k + drift
    raise TypeError(f"not a noise model: {model!r}")


def bias(model: NoiseModel, theta: float, k: int,
         run_noise: Optional[DeviationTable] = None) -> tuple[float, float]:
    """Unclamped bias pair (cos k theta + eta1[k], sin k theta + eta2[k]).

    Gaussian-family models require ``run_noise`` covering k; a Ban model with
    a custom strategy reads its embedded table.
    """
    bx, by = _bias_arrays(model, float(theta), np.asarray([int(k)]), run_noise)
    return float(bx[0]), float(by[0])


def bias_table(model: NoiseModel, theta, grid_size: int,
               run_noise: Optional[DeviationTable] = None):
    """Vectorized biases for all times k = 0 .. grid_size-1.

    One phase gives two length-K tables.  A 1-d array of B phases gives two
    (B, K) tables, row b at theta[b] with row b of a 2-d run-noise table.
    """
    K = int(grid_size)
    if K < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size}")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim > 1:
        raise ValueError("theta must be one phase or a 1-d array of phases")
    return _bias_arrays(model, theta[..., None], np.arange(K), run_noise)


def draw_gaussian_run_noise(sigma: float, grid_size: int,
                            rng: np.random.Generator,
                            linear: bool = False,
                            size: Optional[int] = None) -> DeviationTable:
    """Draw the 2K independent normal deviations fixed for one run, or for
    each of ``size`` runs as the rows of a 2-d table.

    Scale is sigma for every time, or k * sigma when ``linear`` (the
    depth-proportional variant).  sigma = 0 yields the all-zeros table.
    Normals are consumed run by run: eta1, then eta2.
    """
    K = int(grid_size)
    if K < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size}")
    if not math.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    scale = sigma * np.arange(K, dtype=float) if linear else np.full(K, float(sigma))
    shape = (2, K) if size is None else (int(size), 2, K)
    eta = rng.standard_normal(shape)
    eta *= scale
    return DeviationTable(eta1=eta[..., 0, :], eta2=eta[..., 1, :])


def draw_run_noise(model: NoiseModel, grid_size: int, rng: np.random.Generator,
                   size: Optional[int] = None) -> Optional[DeviationTable]:
    """Per-run stochastic state for a model, one row per run when ``size``
    is given; None when the model has none."""
    if isinstance(model, Gaussian):
        return draw_gaussian_run_noise(model.sigma, grid_size, rng, size=size)
    if isinstance(model, GaussianLinear):
        return draw_gaussian_run_noise(model.sigma, grid_size, rng, linear=True, size=size)
    return None


def implied_eta_bar(model: NoiseModel, grid_size: int) -> Optional[float]:
    """Envelope of |eta| over times k <= grid_size, when the model has one.

    Ideal -> 0, Ban -> eta_bar, Dephasing -> 1 - exp(-K/T2) (k = K inclusive,
    a conservative cap), HighCoherence -> K/T2.  Gaussian draws are unbounded,
    so None is returned for them.
    """
    K = int(grid_size)
    if isinstance(model, Ideal):
        return 0.0
    if isinstance(model, Ban):
        return float(model.eta_bar)
    if isinstance(model, Dephasing):
        return float(-math.expm1(-K / model.t2))
    if isinstance(model, HighCoherence):
        return float(K / model.t2)
    return None


def ban_threshold() -> float:
    """Supremum of adversarial bounds admitting a sample-count guarantee:
    2 sqrt(2) / (9 pi) ~ 0.1000 (a ~0.05 shift of the outcome probability)."""
    return 2.0 * math.sqrt(2.0) / (9.0 * math.pi)


def dephasing_ratio_threshold_nominal() -> float:
    """Depth-to-dephasing-scale ratio limit as conventionally quoted:
    -ln(1/2 - 2 sqrt(2)/(9 pi)) ~ 0.916.

    This value does not follow from the deviation bound implemented here; see
    :func:`dephasing_ratio_threshold_rederived` and
    :func:`rfe.bounds.derivation_report` for the discrepancy.
    """
    return -math.log(0.5 - ban_threshold())


def dephasing_ratio_threshold_rederived() -> float:
    """Ratio limit solving (1 - exp(-x))/2 = 2 sqrt(2)/(9 pi), i.e. reading
    the constraint against half the deviation: -ln(1 - 4 sqrt(2)/(9 pi)) ~ 0.223."""
    return -math.log(1.0 - 2.0 * ban_threshold())


# --- JSON wire format -------------------------------------------------------
#
# {"kind": "ideal"}
# {"kind": "ban", "eta_bar": 0.05, "strategy": "sign_flip"}
# {"kind": "ban", "eta_bar": 0.05,
#  "strategy": {"name": "custom", "eta1": [...], "eta2": [...]}}
# {"kind": "gaussian", "sigma": 0.1}
# {"kind": "gaussian_linear", "sigma": 0.01}
# {"kind": "dephasing", "t2": 100.0}
# {"kind": "high_coherence", "t2": 1000.0}

def noise_to_dict(model: NoiseModel) -> dict:
    """JSON-ready description of a noise model."""
    if isinstance(model, Ideal):
        return {"kind": "ideal"}
    if isinstance(model, Ban):
        if isinstance(model.strategy, DeviationTable):
            strategy = {
                "name": "custom",
                "eta1": [float(v) for v in model.strategy.eta1],
                "eta2": [float(v) for v in model.strategy.eta2],
            }
        else:
            strategy = model.strategy.value
        return {"kind": "ban", "eta_bar": float(model.eta_bar), "strategy": strategy}
    if isinstance(model, Gaussian):
        return {"kind": "gaussian", "sigma": float(model.sigma)}
    if isinstance(model, GaussianLinear):
        return {"kind": "gaussian_linear", "sigma": float(model.sigma)}
    if isinstance(model, Dephasing):
        return {"kind": "dephasing", "t2": float(model.t2)}
    if isinstance(model, HighCoherence):
        return {"kind": "high_coherence", "t2": float(model.t2)}
    raise TypeError(f"not a noise model: {model!r}")


def noise_from_dict(data: dict) -> NoiseModel:
    """Parse the JSON wire format back into a noise model."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError('noise JSON must be an object with a "kind" field')
    kind = data["kind"]
    try:
        if kind == "ideal":
            return Ideal()
        if kind == "ban":
            raw = data.get("strategy", AdversaryStrategy.SIGN_FLIP.value)
            if isinstance(raw, dict):
                if raw.get("name") != "custom":
                    raise ValueError(f"unknown strategy object {raw!r}")
                strategy = DeviationTable(eta1=np.asarray(raw["eta1"], dtype=float),
                                          eta2=np.asarray(raw["eta2"], dtype=float))
            else:
                strategy = AdversaryStrategy(raw)
            return Ban(eta_bar=float(data["eta_bar"]), strategy=strategy)
        if kind == "gaussian":
            return Gaussian(sigma=float(data["sigma"]))
        if kind == "gaussian_linear":
            return GaussianLinear(sigma=float(data["sigma"]))
        if kind == "dephasing":
            return Dephasing(t2=float(data["t2"]))
        if kind == "high_coherence":
            return HighCoherence(t2=float(data["t2"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed noise JSON for kind {kind!r}: {exc}") from exc
    raise ValueError(f"unknown noise kind {kind!r}")
